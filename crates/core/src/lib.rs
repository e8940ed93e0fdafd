//! Technology-dependent quantum logic synthesis — the primary contribution
//! of Smith & Thornton, "A Quantum Computational Compiler and Design Tool
//! for Technology-Specific Targets" (ISCA 2019).
//!
//! The [`Compiler`] maps technology-independent quantum circuits onto real
//! coupling-map-constrained devices:
//!
//! * [`decompose`] — generalized-Toffoli cascades (Barenco et al.) and the
//!   exact 15-gate Clifford+T Toffoli network;
//! * [`route`] — CNOT orientation reversal (paper Fig. 6) and the
//!   connectivity-tree reroute CTR (paper Figs. 4-5), one of the
//!   [`strategy`] routers behind [`RoutingStrategy::route`];
//! * [`optimize`](mod@crate::optimize) — recursive identity removal and circuit-identity
//!   rewrites driven by a pluggable cost function (paper Eqn. 2);
//! * [`place`](mod@crate::place) — identity placement (as in the paper) plus the greedy
//!   interaction-aware placement the paper lists as future work;
//! * built-in QMDD formal verification of every output.
//!
//! # Examples
//!
//! ```
//! use qsyn_arch::devices;
//! use qsyn_circuit::Circuit;
//! use qsyn_core::Compiler;
//! use qsyn_gate::Gate;
//!
//! // A Toffoli is not native on IBM Q; compile it for ibmqx4.
//! let mut spec = Circuit::new(3);
//! spec.push(Gate::toffoli(0, 1, 2));
//! let result = Compiler::new(devices::ibmqx4()).compile(&spec)?;
//! assert!(result.optimized.is_technology_ready());
//! assert_eq!(result.verified, Some(true));
//! println!("{}", result.optimized.to_qasm().unwrap());
//! # Ok::<(), qsyn_core::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod cache;
mod compiler;
pub mod decompose;
mod error;
pub mod library;
pub mod optimize;
pub mod options;
pub mod persist;
mod phase_poly;
pub mod place;
pub mod pool;
mod remap;
pub mod route;
pub mod serve;
pub mod sk;
pub mod strategy;

pub use budget::{BudgetResource, CompileBudget, VerifyMode};
#[cfg(feature = "fault-injection")]
pub use budget::{FaultKind, FaultSpec};
pub use cache::{
    routing_lookup, routing_oracle, routing_table, CacheMode, CacheStatsSnapshot, DistanceOracle,
    RoutingLookup, RoutingTable, SPARSE_ORACLE_MIN_QUBITS,
};
pub use compiler::{CompileResult, Compiler, Optimization, StreamSummary, Verification};
pub use decompose::{
    decompose_circuit_memo, mct_decompose, mct_to_toffolis, rccx, rccx_dagger, DecomposeStrategy,
};
pub use error::CompileError;
pub use optimize::{optimize_bounded, OptimizeConfig, OptimizeCounters};
pub use options::{load_circuit, Args, CompileOptions, CostKind};
pub use persist::{DiskCache, DiskLoad, EvictionSummary};
pub use place::{place, Placement, PlacementStrategy};
pub use route::{ctr_route_with, CtrRoute, RoutingObjective, DEFAULT_CNOT_ERROR};
pub use sk::{approximate_rz, approximate_rz_to_accuracy, approximate_unitary, SkApproximation};
pub use strategy::{
    CtrStrategy, LookaheadStrategy, PersistentStrategy, RouteOutcome, RouteRequest,
    RouteStrategyKind, RoutingStrategy,
};

/// Joins option names as prose for "want ..." errors: `a, b or c`.
fn one_of(names: &[&str]) -> String {
    match names.split_last() {
        Some((last, [])) => (*last).to_string(),
        Some((last, rest)) => format!("{} or {last}", rest.join(", ")),
        None => String::new(),
    }
}

#[cfg(test)]
/// Whether `a` and `b` realize the same unitary, exactly: the canonical
/// QMDD check on the pair's support, unbudgeted.
pub(crate) fn qmdd_equal(a: &qsyn_circuit::Circuit, b: &qsyn_circuit::Circuit) -> bool {
    let support = qsyn_qmdd::miter_support(a, b);
    let method = qsyn_qmdd::EquivMethod::Canonical;
    qsyn_qmdd::try_equivalent_on(&support, a, b, method, Default::default())
        .expect("an unbudgeted check cannot exhaust")
        .equivalent
}
