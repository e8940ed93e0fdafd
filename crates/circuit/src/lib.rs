//! Quantum circuit intermediate representation and text-format front-ends.
//!
//! The [`Circuit`] type is the IR every stage of the `qsyn` compiler operates
//! on: the ESOP front-end emits it, the technology-mapping back-end rewrites
//! it, and the QMDD verifier consumes it. Three text formats are supported,
//! mirroring the input formats of the paper (Section 4):
//!
//! * OpenQASM 2.0 (`.qasm`) — [`Circuit::from_qasm`] / [`Circuit::to_qasm`];
//! * `.qc` — [`Circuit::from_qc`] / [`Circuit::to_qc`];
//! * RevLib `.real` — [`Circuit::from_real`] / [`Circuit::to_real`].
//!
//! # Examples
//!
//! ```
//! use qsyn_circuit::Circuit;
//!
//! let c = Circuit::from_real(".numvars 3\n.variables a b c\nt3 a b c\n")?;
//! assert_eq!(c.stats().unmapped_multi_count, 1);
//! # Ok::<(), qsyn_circuit::ParseCircuitError>(())
//! ```

#![warn(missing_docs)]

mod circuit;
mod draw;
mod error;
mod hash;
mod qasm;
mod qc;
mod real;
mod stats;

pub use circuit::Circuit;
pub use draw::{draw, layers};
pub use error::ParseCircuitError;
pub use hash::{structural_hash, Fnv128};
pub use qasm::{parse_qasm, qasm_header, to_qasm, write_gate_qasm};
pub use qc::{parse_qc, to_qc};
pub use real::{parse_real, to_real};
pub use stats::{depth, gate_histogram, t_depth, CircuitStats};
