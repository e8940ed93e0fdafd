//! Quantum Multiple-valued Decision Diagrams (QMDD) with formal
//! equivalence checking.
//!
//! Implements the data structure of Miller & Thornton (ISMVL 2006) used by
//! the paper's compiler for built-in formal verification: a canonical,
//! hash-consed DAG representation of the `2^n x 2^n` unitary of a quantum
//! circuit. Because the representation is canonical for a fixed variable
//! order, two circuits realize the same unitary exactly when their root
//! edges coincide.
//!
//! # Examples
//!
//! ```
//! use qsyn_circuit::Circuit;
//! use qsyn_gate::Gate;
//! use qsyn_qmdd::{miter_support, try_equivalent_on, EquivBudget, EquivMethod};
//!
//! // CNOT reversal identity (paper Fig. 6).
//! let mut fwd = Circuit::new(2);
//! fwd.push(Gate::cx(1, 0));
//! let mut rev = Circuit::new(2);
//! for g in [Gate::h(0), Gate::h(1), Gate::cx(0, 1), Gate::h(0), Gate::h(1)] {
//!     rev.push(g);
//! }
//! let support = miter_support(&fwd, &rev);
//! let report = try_equivalent_on(
//!     &support,
//!     &fwd,
//!     &rev,
//!     EquivMethod::Canonical,
//!     EquivBudget::default(),
//! )?;
//! assert!(report.equivalent);
//! # Ok::<(), qsyn_qmdd::EquivBudgetError>(())
//! ```

#![warn(missing_docs)]

mod ctable;
mod dot;
mod equiv;
mod fxhash;
mod package;
mod state;

pub use ctable::{WeightId, WeightTable, W_NEG_ONE, W_ONE, W_ZERO};
pub use equiv::{
    build_circuit_qmdd, equivalent_with_ancillas, miter_support, process_fidelity, try_equivalent,
    try_equivalent_miter, try_equivalent_miter_on_batched, try_equivalent_on, EquivBudget,
    EquivBudgetError, EquivMethod, EquivReport, DEFAULT_MITER_BATCH,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use package::{CacheStats, Edge, NodeId, Qmdd, M2, TERMINAL};
pub use state::Simulator;
