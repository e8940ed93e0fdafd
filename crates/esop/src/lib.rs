//! ESOP-based reversible logic front-end (paper Section 2.3).
//!
//! Converts classical switching functions into technology-independent
//! reversible cascades of NOT / CNOT / Toffoli / generalized Toffoli gates,
//! following the ESOP cascade generation approach of Fazel–Thornton:
//!
//! 1. a [`TruthTable`] describes the function;
//! 2. [`Esop::minimized`] extracts a fixed-polarity Reed-Muller ESOP and
//!    shrinks it with local exorlink-style merges;
//! 3. [`cascade_from_esop`] (or [`synthesize_single_target`]) turns each
//!    cube into one generalized Toffoli gate.
//!
//! # Examples
//!
//! ```
//! use qsyn_esop::{synthesize_single_target, TruthTable};
//!
//! // A 3-input majority as a single-target gate on 4 lines.
//! let maj = TruthTable::from_fn(3, |x| (x.count_ones()) >= 2);
//! let circuit = synthesize_single_target(&maj);
//! assert!(circuit.is_classical());
//! assert_eq!(circuit.n_qubits(), 4);
//! ```

#![warn(missing_docs)]

mod cascade;
mod cube;
mod esop;
mod mmd;
mod pla;
mod truth_table;

pub use cascade::{
    cascade_from_esop, cascade_size_estimate, synthesize_multi_output, synthesize_single_target,
};
pub use cube::Cube;
pub use esop::{assignment_to_row, row_to_assignment, Esop};
pub use mmd::{synthesize_permutation, Permutation};
pub use pla::{parse_pla, Pla};
pub use truth_table::TruthTable;
